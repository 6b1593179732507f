#include "obs/json.h"

#include <cctype>
#include <cstdlib>
#include <utility>

#include "common/strings.h"

namespace spardl {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Recursive-descent JSON parser over a cursor into the document,
/// building the small DOM `spardl-analyze` consumes.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool ParseDocument(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipSpace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (++depth_ > 256) return false;
    SkipSpace();
    if (AtEnd()) return false;
    bool ok = false;
    switch (Peek()) {
      case '{':
        ok = ParseObject(out);
        break;
      case '[':
        ok = ParseArray(out);
        break;
      case '"':
        out->type = JsonValue::Type::kString;
        ok = ParseString(&out->string_value);
        break;
      case 't':
        out->type = JsonValue::Type::kBool;
        out->bool_value = true;
        ok = ConsumeLiteral("true");
        break;
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->bool_value = false;
        ok = ConsumeLiteral("false");
        break;
      case 'n':
        out->type = JsonValue::Type::kNull;
        ok = ConsumeLiteral("null");
        break;
      default:
        ok = ParseNumber(out);
    }
    --depth_;
    return ok;
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    if (!Consume('{')) return false;
    SkipSpace();
    if (Consume('}')) return true;
    for (;;) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object_items.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    if (!Consume('[')) return false;
    SkipSpace();
    if (Consume(']')) return true;
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array_items.push_back(std::move(value));
      SkipSpace();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  static void AppendUtf8(std::string* out, unsigned code_point) {
    if (code_point < 0x80) {
      out->push_back(static_cast<char>(code_point));
    } else if (code_point < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code_point >> 6)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else if (code_point < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code_point >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code_point >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    }
  }

  bool ParseHex4(unsigned* out) {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (AtEnd()) return false;
      const char c = text_[pos_];
      unsigned digit;
      if (c >= '0' && c <= '9') digit = static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = 10u + static_cast<unsigned>(c - 'a');
      else if (c >= 'A' && c <= 'F') digit = 10u + static_cast<unsigned>(c - 'A');
      else return false;
      value = value * 16 + digit;
      ++pos_;
    }
    *out = value;
    return true;
  }

  bool ParseString(std::string* out) {
    out->clear();
    if (!Consume('"')) return false;
    while (!AtEnd()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (AtEnd()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          unsigned code_point;
          if (!ParseHex4(&code_point)) return false;
          if (code_point >= 0xD800 && code_point <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            unsigned low;
            if (!ConsumeLiteral("\\u") || !ParseHex4(&low) || low < 0xDC00 ||
                low > 0xDFFF) {
              return false;
            }
            code_point =
                0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
          } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
            return false;  // unpaired low surrogate
          }
          AppendUtf8(out, code_point);
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    Consume('-');
    if (Consume('0')) {
      if (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        return false;
      }
    } else {
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return false;
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (Consume('.')) {
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return false;
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return false;
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    out->type = JsonValue::Type::kNumber;
    // The slice is a valid JSON number — strtod accepts a superset.
    out->number_value =
        std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                    nullptr);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object_items) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_number() ? value->number_value
                                                : fallback;
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_string() ? value->string_value
                                                : std::move(fallback);
}

std::optional<JsonValue> JsonParse(std::string_view text) {
  JsonValue root;
  if (!JsonParser(text).ParseDocument(&root)) return std::nullopt;
  return root;
}

}  // namespace spardl
